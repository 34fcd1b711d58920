//! The Gibbs count state: `N_dk`, `N_wk`, `N_k` behind one type.
//!
//! [`TopicCounts`] owns the three tables every reader of the sampler state
//! goes through — the sequential sweep, the thread-sharded sweep's
//! snapshot, φ/θ point estimates, perplexity, and Minka's fixed-point
//! hyperparameter updates. Centralizing them keeps the add/remove
//! bookkeeping in one place and gives the parallel scheduler a single
//! thing to snapshot and merge.
//!
//! # Amortized snapshots
//!
//! The thread-sharded sweep samples every document against a frozen copy
//! of `N_wk`/`N_k`. Re-cloning those tables each sweep is O(V·K) — for
//! huge vocabularies that copy dominates the sweep. [`TopicCounts`]
//! therefore double-buffers: it keeps a second `snap_wk`/`snap_k` pair,
//! and [`apply_delta`](TopicCounts::apply_delta) rolls each sweep's sparse
//! `(idx, Δ)` barrier merge into *both* buffers. Because the deltas are
//! exact integers, `snapshot = previous snapshot + merged deltas` is
//! bit-identical to a fresh clone, but costs O(nnz) — proportional to how
//! many counts actually moved, independent of V·K. A full copy happens
//! only when the snapshot is stale: the first parallel sweep, or after a
//! sequential mutation ([`add_group`](TopicCounts::add_group)/
//! [`remove_group`](TopicCounts::remove_group) invalidate it).
//!
//! # Sparse nonzero indexes
//!
//! The bucketed O(active-topics) sampling kernel (`kernel.rs`,
//! `KERNEL_VERSION = 2`) iterates only the topics a word or document
//! actually uses. [`TopicCounts`] therefore maintains, alongside the dense
//! tables, a **sorted** list of nonzero topics per `N_wk` row
//! ([`word_nz`](TopicCounts::word_nz)) and per `N_dk` row
//! ([`doc_nz`](TopicCounts::doc_nz)). Every mutation path keeps them in
//! sync: `add_group`/`remove_group` on the sequential path, and the same
//! sparse `(idx, Δ)` barrier merge that rolls the snapshot forward on the
//! parallel path ([`apply_delta`](TopicCounts::apply_delta) watches the
//! 0 ↔ nonzero transitions it already computes). Sorted order makes the
//! kernel's bucket-sum iteration order canonical, which is what keeps the
//! sampled chain bit-identical across thread counts.

/// Dense count tables of a collapsed Gibbs chain over `D` documents,
/// `V` words, and `K` topics, plus the amortized sweep-snapshot buffers.
///
/// Equality compares only the live chain state (`N_dk`/`N_wk`/`N_k`);
/// the snapshot buffers are a cache and never observable.
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
    /// Double buffer of `n_wk` for parallel sweeps (empty until the first
    /// [`refresh_snapshot`](TopicCounts::refresh_snapshot)).
    snap_wk: Vec<u32>,
    /// Double buffer of `n_k`.
    snap_k: Vec<u64>,
    /// Whether `snap_wk`/`snap_k` currently equal `n_wk`/`n_k`.
    snap_fresh: bool,
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

/// Insert `t` into a sorted nonzero-topic list (no-op if present).
#[inline]
pub fn nz_insert(list: &mut Vec<u16>, t: u16) {
    if let Err(pos) = list.binary_search(&t) {
        list.insert(pos, t);
    }
}

/// Remove `t` from a sorted nonzero-topic list (no-op if absent).
#[inline]
pub fn nz_remove(list: &mut Vec<u16>, t: u16) {
    if let Ok(pos) = list.binary_search(&t) {
        list.remove(pos);
    }
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

/// Split-borrow of [`TopicCounts`] for one parallel sweep: the frozen
/// snapshot plus the sparse indexes (`nz_wk` shared for the gather,
/// `nz_dk` chunked mutably per document shard alongside `n_dk`). The nz
/// indexes come as flat fixed-capacity-K rows plus their length arrays.
pub struct SweepViews<'a> {
    pub snap_wk: &'a [u32],
    pub snap_k: &'a [u64],
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
            snap_wk: Vec::new(),
            snap_k: Vec::new(),
            snap_fresh: false,
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

    /// The full `N_wk` table, row-major `w*K + k` (e.g. to snapshot it or
    /// build a [`crate::kernel::TrainView`]).
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

    /// Bring the snapshot buffers up to date with the live tables.
    ///
    /// Cheap when the snapshot is already fresh (the common case: the
    /// previous parallel sweep rolled its deltas into both buffers);
    /// otherwise performs the one full O(V·K) copy that seeds the
    /// amortization. Returns the number of `n_wk` cells copied (0 when
    /// fresh), which the scheduler surfaces as a sweep statistic.
    pub fn refresh_snapshot(&mut self) -> usize {
        if self.snap_fresh {
            return 0;
        }
        self.snap_wk.clear();
        let advise = self.snap_wk.capacity() < self.n_wk.len();
        self.snap_wk.reserve_exact(self.n_wk.len());
        if advise {
            advise_huge(self.snap_wk.spare_capacity_mut());
        }
        self.snap_wk.extend_from_slice(&self.n_wk);
        self.snap_k.clear();
        self.snap_k.extend_from_slice(&self.n_k);
        self.snap_fresh = true;
        self.snap_wk.len()
    }

    /// Drop the amortized snapshot so the next
    /// [`refresh_snapshot`](Self::refresh_snapshot) performs a full clone.
    /// Used by the clone-baseline benchmarks and the amortized-vs-clone
    /// equivalence tests; never needed in normal operation.
    pub fn invalidate_snapshot(&mut self) {
        self.snap_fresh = false;
    }

    /// Whether the snapshot buffers currently mirror the live tables.
    #[inline]
    pub fn snapshot_is_fresh(&self) -> bool {
        self.snap_fresh
    }

    /// Split-borrow for one parallel sweep: the frozen
    /// `(snap_wk, snap_k)` snapshot (shared across worker threads), the
    /// mutable `N_dk` rows (chunked per document shard), and the sparse
    /// nonzero indexes (`nz_wk` shared, `nz_dk` chunked like `n_dk`).
    /// Requires a fresh snapshot — call
    /// [`refresh_snapshot`](Self::refresh_snapshot) first.
    #[inline]
    pub fn sweep_views(&mut self) -> SweepViews<'_> {
        // A real assert: a stale snapshot here would silently sample a
        // wrong (non-bit-identical) chain, and the check is one bool read
        // per sweep.
        assert!(self.snap_fresh, "sweep_views needs a fresh snapshot");
        SweepViews {
            snap_wk: &self.snap_wk,
            snap_k: &self.snap_k,
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
        self.snap_fresh = false;
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
        self.snap_fresh = false;
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
    /// addition commutes, so the merged state is independent of shard
    /// count and application order.
    ///
    /// When the snapshot is fresh, the delta also rolls into the snapshot
    /// buffers — this is the amortization: after the last shard of a sweep
    /// merges, `snap_wk`/`snap_k` already *are* the next sweep's snapshot,
    /// in O(nnz) instead of an O(V·K) re-clone, and bit-identical to one
    /// (integer adds are exact).
    pub fn apply_delta(&mut self, delta_wk: &[(u32, i32)], delta_k: &[i64]) {
        debug_assert_eq!(delta_k.len(), self.n_k.len());
        if self.snap_fresh {
            // Steady-state barrier merge: one pass updates both buffers
            // and the nonzero index (the same index may repeat across
            // shards, so 0 ↔ nonzero transitions are watched per update).
            for &(i, d) in delta_wk {
                let prev = self.n_wk[i as usize];
                let next = prev as i64 + d as i64;
                debug_assert!(next >= 0, "n_wk went negative in merge");
                self.n_wk[i as usize] = next as u32;
                self.snap_wk[i as usize] = (self.snap_wk[i as usize] as i64 + d as i64) as u32;
                let (w, t) = (i as usize / self.k, (i as usize % self.k) as u16);
                let base = w * self.k;
                if prev == 0 && next > 0 {
                    nz_row_insert(
                        &mut self.nz_wk[base..base + self.k],
                        &mut self.nz_wk_len[w],
                        t,
                    );
                } else if prev > 0 && next == 0 {
                    nz_row_remove(
                        &mut self.nz_wk[base..base + self.k],
                        &mut self.nz_wk_len[w],
                        t,
                    );
                }
            }
            for ((c, s), &d) in self.n_k.iter_mut().zip(self.snap_k.iter_mut()).zip(delta_k) {
                let next = *c as i64 + d;
                debug_assert!(next >= 0, "n_k went negative in merge");
                *c = next as u64;
                *s = (*s as i64 + d) as u64;
            }
        } else {
            for &(i, d) in delta_wk {
                let prev = self.n_wk[i as usize];
                let next = prev as i64 + d as i64;
                debug_assert!(next >= 0, "n_wk went negative in merge");
                self.n_wk[i as usize] = next as u32;
                let (w, t) = (i as usize / self.k, (i as usize % self.k) as u16);
                let base = w * self.k;
                if prev == 0 && next > 0 {
                    nz_row_insert(
                        &mut self.nz_wk[base..base + self.k],
                        &mut self.nz_wk_len[w],
                        t,
                    );
                } else if prev > 0 && next == 0 {
                    nz_row_remove(
                        &mut self.nz_wk[base..base + self.k],
                        &mut self.nz_wk_len[w],
                        t,
                    );
                }
            }
            for (c, &d) in self.n_k.iter_mut().zip(delta_k) {
                let next = *c as i64 + d;
                debug_assert!(next >= 0, "n_k went negative in merge");
                *c = next as u64;
            }
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
    fn snapshot_rolls_forward_through_deltas_and_invalidates_on_mutation() {
        let mut c = TopicCounts::new(1, 3, 2);
        c.add_group(0, &[0, 1, 2], 0);
        assert!(!c.snapshot_is_fresh());
        // First refresh: a full copy.
        assert_eq!(c.refresh_snapshot(), 3 * 2);
        assert!(c.snapshot_is_fresh());
        {
            let views = c.sweep_views();
            assert_eq!(views.snap_wk, &[1, 0, 1, 0, 1, 0]);
            assert_eq!(views.snap_k, &[3, 0]);
        }
        // A barrier merge rolls into both buffers: the snapshot stays
        // fresh and the next refresh costs nothing.
        c.apply_delta(&[(0, -1), (1, 1)], &[-1, 1]);
        assert!(c.snapshot_is_fresh());
        assert_eq!(c.refresh_snapshot(), 0);
        {
            let views = c.sweep_views();
            assert_eq!(views.snap_wk, &[0, 1, 1, 0, 1, 0]);
            assert_eq!(views.snap_k, &[2, 1]);
        }
        // Sequential mutation invalidates; the refresh re-clones and the
        // result still matches the live tables exactly.
        c.add_group(0, &[1], 1);
        assert!(!c.snapshot_is_fresh());
        assert_eq!(c.refresh_snapshot(), 3 * 2);
        let live_wk = c.n_wk_table().to_vec();
        let live_k = c.n_k_table().to_vec();
        let views = c.sweep_views();
        assert_eq!(views.snap_wk, &live_wk[..]);
        assert_eq!(views.snap_k, &live_k[..]);
    }

    #[test]
    fn equality_ignores_snapshot_buffers() {
        let mut a = TopicCounts::new(1, 2, 2);
        let mut b = a.clone();
        a.add_group(0, &[0], 0);
        b.add_group(0, &[0], 0);
        a.refresh_snapshot();
        assert_eq!(a, b, "snapshot state must not affect equality");
        a.invalidate_snapshot();
        assert_eq!(a, b);
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
        c.refresh_snapshot();
        // Two shards both touched cell (w=0, t=0): 1 → 0 → 1 across the
        // merge. The nz list must see both transitions, not just the net.
        c.apply_delta(&[(0, -1), (0, 1)], &[0, 0]);
        assert_eq!(c.word_nz(0), &[0]);
        c.validate_nz().unwrap();
        // Net removal and net insertion through the merged path, with the
        // snapshot both fresh and stale.
        c.apply_delta(&[(0, -1), (1, 1)], &[-1, 1]);
        assert_eq!(c.word_nz(0), &[1]);
        c.invalidate_snapshot();
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
