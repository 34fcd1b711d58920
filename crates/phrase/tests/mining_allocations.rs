//! Algorithm 1 allocates nothing per counted occurrence.
//!
//! A whole mine may allocate O(docs) state vectors, O(survivors) output
//! phrase boxes, and O(log candidates) table growth steps, so the budget
//! below scales with documents and surviving phrases, never with the
//! windows counted. The corpus repeats a short cycle of words, so the
//! counted occurrences outnumber the budget at least tenfold and a single
//! per-occurrence allocation (the boxed-key hashmap pattern) fails the test.
//!
//! This file holds exactly one test: the counting global allocator sees
//! every thread of the process, so no other test may run beside it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use topmine_corpus::{Corpus, Document, Vocab};
use topmine_phrase::{FrequentPhraseMiner, MinerConfig};

struct CountingAllocator;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method forwards its arguments unchanged to `System`, so
// `System`'s guarantees are this allocator's; the counter is a statistic
// and publishes no other data.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

/// 2 000 documents of four 16-token chunks, each chunk a rotation of one
/// 8-word cycle: every n-gram up to the chunk length is frequent, but only
/// 8 distinct n-grams exist per length.
fn cyclic_corpus() -> Corpus {
    const CYCLE: u32 = 8;
    let mut vocab = Vocab::new();
    for i in 0..CYCLE {
        vocab.intern(&format!("w{i}"));
    }
    let mut x = 0x2545_f491_4f6c_dd1du64;
    let docs = (0..2000)
        .map(|_| {
            let chunks: Vec<Vec<u32>> = (0..4)
                .map(|_| {
                    x ^= x << 13;
                    x ^= x >> 7;
                    x ^= x << 17;
                    let offset = (x % CYCLE as u64) as u32;
                    (0..16).map(|i| (offset + i) % CYCLE).collect()
                })
                .collect();
            Document::from_chunks(chunks.iter().map(Vec::as_slice))
        })
        .collect();
    Corpus {
        vocab,
        docs,
        provenance: None,
        unstem: None,
    }
}

#[test]
fn mining_allocates_per_document_and_survivor_not_per_occurrence() {
    let corpus = cyclic_corpus();
    for threads in [1usize, 4] {
        let miner = FrequentPhraseMiner::with_config(MinerConfig {
            min_support: 5,
            n_threads: threads,
            ..MinerConfig::default()
        });
        let before = ALLOCATIONS.load(Ordering::Relaxed);
        let (stats, tel) = miner.mine_with_telemetry(&corpus);
        let allocs = ALLOCATIONS.load(Ordering::Relaxed) - before;

        let budget = 10 * corpus.n_docs() as u64 + 8 * tel.frequent() + 4096;
        assert!(
            tel.occurrences() >= 10 * budget,
            "corpus too small to expose per-occurrence allocation: {} occurrences vs budget {budget}",
            tel.occurrences()
        );
        assert!(
            allocs <= budget,
            "{threads}-thread mine allocated {allocs} heap blocks for {} docs / {} frequent \
             phrases (budget {budget}): per-occurrence allocation crept into the counting pass",
            corpus.n_docs(),
            tel.frequent()
        );
        assert_eq!(stats.n_frequent_ngrams() as u64, tel.frequent());
    }
}
