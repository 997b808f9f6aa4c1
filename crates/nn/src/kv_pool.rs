//! Paged KV-cache pool with copy-on-write prefix sharing.
//!
//! Every serving session used to own monolithic per-head `Vec` growth
//! ([`SessionState`](crate::SessionState) held one `KvCache` per layer).
//! Under churn that fragments the allocator and stores identical prompt
//! prefixes once per request. This module replaces that with a shared
//! [`KvPagePool`]:
//!
//! * **Pages** — fixed-size frames of `PageEntry` blocks, one entry per
//!   `(layer, kv_head)`, each holding the packed three-stream KV block
//!   (nibble FP4 codes | E8M0 scales | 2-bit Sg-EM meta) plus its decoded
//!   working state (the K score-GEMM [`WeightPlane`], the dequantized V
//!   rows). A page spans [`PoolGeometry::page_tokens`]
//!   tokens, validated to be a multiple of the quantization group size so
//!   a page never splits a group — which is what makes per-page appends
//!   and per-page attention bit-identical to the monolithic layout.
//! * **Free list** — released frames keep their stream allocations
//!   ([`clear_rows`](PackedWeightTensor::clear_rows) drops rows, not
//!   capacity) and are recycled O(1) on the next
//!   [`acquire`](KvPagePool::acquire). A cleared frame compares equal to a
//!   freshly quantized empty one, so a reused page leaves no trace — the
//!   unit tests pin recycled-page appends bit-identical to fresh-pool
//!   appends.
//! * **Copy-on-write sharing** — page handles are `Arc`s. Appending
//!   through a handle whose page is shared (a cloned session, or a frozen
//!   prefix page the pool retains) clones the page first
//!   (`PageHandle::make_mut`); this is the cache's only copy-on-write
//!   layer. A shared page is never mutated in place.
//! * **Prefix reuse** — after a prefill completes, its full pages can be
//!   frozen under a chain hash of the prompt rows they cover and retained
//!   by the pool ([`KvPagePool::register_prefix`]). A later request with
//!   the same prompt prefix adopts those pages
//!   ([`KvPagePool::lookup_prefix`] → [`PagedKv::adopt_prefix`]) instead
//!   of re-quantizing them; the stored source rows are verified bitwise
//!   before adoption, so a hash collision can never smuggle in foreign KV
//!   state. The retention list is the prefix index: at most `RETAIN_CAP`
//!   frozen pages, scanned for a page's chain hash at admission and when
//!   a prefill ends. A page found by either scan moves to the back, so
//!   the page evicted first is the least recently hit, and a prefix that
//!   requests keep adopting outlives any stream of one-off pages. An
//!   evicted page is no longer adoptable, even while a session still
//!   holds it.
//!
//! Accounting is honest about both representations:
//! [`PagedKv::packed_bytes`] counts the canonical 4.5-bit streams (what
//! the serving admission budget gates on) and [`PagedKv::decoded_bytes`]
//! counts the decoded K planes + dequantized-V working state on top.

use m2x_tensor::Matrix;
use m2xfp::format::PackedWeightTensor;
use m2xfp::gemm::WeightPlane;
use m2xfp::{Error, M2xfpConfig};
use std::collections::VecDeque;
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, PoisonError, Weak};

/// Released frames kept for recycling; beyond this, frames are dropped so
/// a burst of churn cannot pin unbounded capacity.
const FREE_LIST_CAP: usize = 256;

/// Frozen prefix pages the pool itself keeps alive so a prefix outlives
/// the request that produced it; the least recently hit page is evicted
/// first, and only retained pages are adoptable.
const RETAIN_CAP: usize = 64;

/// Seed of the prompt-row chain hash (two mixed 64-bit streams).
const CHAIN_SEED: u128 = (0x9e37_79b9_7f4a_7c15_u128 << 64) | 0xcbf2_9ce4_8422_2325_u128;

const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// A mutex poisoned by a panicking engine thread still guards a
/// structurally valid free list (every transition completes before the
/// guard drops), so recover the data instead of propagating the panic —
/// same idiom as `m2x_serve`'s `lock_poisoned`.
fn lock_pool(m: &Mutex<PoolInner>) -> MutexGuard<'_, PoolInner> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

fn fnv_bytes(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// Chains `n` prompt rows starting at `r0` onto `prev`: two independent
/// 64-bit streams over the raw f32 bit patterns, so the 128-bit key of a
/// prefix commits to every byte of every row it covers. Collisions are
/// additionally guarded by the bitwise source-row compare at lookup.
fn hash_rows(prev: u128, m: &Matrix, r0: usize, n: usize) -> u128 {
    let mut a = (prev as u64) ^ 0xcbf2_9ce4_8422_2325;
    let mut b = ((prev >> 64) as u64) ^ 0x9e37_79b9_7f4a_7c15;
    for i in 0..n {
        for &v in m.row(r0 + i) {
            let bits = v.to_bits();
            a = fnv_bytes(a, &bits.to_le_bytes());
            b = b
                .wrapping_add((bits as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15))
                .rotate_left(17)
                ^ a;
        }
    }
    ((b as u128) << 64) | (a as u128)
}

/// `true` iff `n` rows of `m` starting at `r0` are bit-identical to `rows`.
fn rows_bit_equal(rows: &Matrix, m: &Matrix, r0: usize, n: usize) -> bool {
    if rows.rows() != n || rows.cols() != m.cols() {
        return false;
    }
    (0..n).all(|i| {
        rows.row(i)
            .iter()
            .zip(m.row(r0 + i))
            .all(|(x, y)| x.to_bits() == y.to_bits())
    })
}

/// Content checksum of a page frame: every packed stream byte (K and V)
/// plus the dequantized V row bits. [`KvPagePool::verify_frozen`] re-runs
/// this to prove shared pages were never mutated in place.
fn checksum_entries(entries: &[PageEntry]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325_u64;
    for e in entries {
        h = fnv_bytes(h, e.k.codes());
        h = fnv_bytes(h, e.k.scales());
        h = fnv_bytes(h, e.k.meta());
        h = fnv_bytes(h, e.v.codes());
        h = fnv_bytes(h, e.v.scales());
        h = fnv_bytes(h, e.v.meta());
        for r in 0..e.v_rows.rows() {
            for &v in e.v_rows.row(r) {
                h = fnv_bytes(h, &v.to_bits().to_le_bytes());
            }
        }
    }
    h
}

/// Shape of every page a pool hands out.
#[derive(Debug, Clone, Copy)]
pub struct PoolGeometry {
    /// Transformer layers covered by one page.
    pub layers: usize,
    /// KV heads per layer.
    pub kv_heads: usize,
    /// Width of one KV head's rows.
    pub head_dim: usize,
    /// Tokens per page — a positive multiple of `cfg.group_size`, so a
    /// page boundary never splits a quantization group.
    pub page_tokens: usize,
    /// Quantization configuration of the packed streams.
    pub cfg: M2xfpConfig,
}

impl PoolGeometry {
    fn validate(&self) -> Result<(), Error> {
        let gs = self.cfg.group_size;
        if self.layers == 0
            || self.kv_heads == 0
            || self.page_tokens == 0
            || self.page_tokens % gs != 0
        {
            return Err(Error::config(format!(
                "pool geometry: layers {} / kv_heads {} must be positive and page_tokens {} a \
                 positive multiple of group_size {gs}",
                self.layers, self.kv_heads, self.page_tokens
            )));
        }
        Ok(())
    }
}

/// One `(layer, kv_head)` KV block of a page: K rows as packed streams
/// plus the score-GEMM plane decoded from them (grown decode-on-append),
/// and V rows quantized per token with their dequantized form cached.
#[derive(Debug, Clone)]
pub(crate) struct PageEntry {
    pub(crate) k: PackedWeightTensor,
    pub(crate) k_plane: WeightPlane,
    pub(crate) v: PackedWeightTensor,
    pub(crate) v_rows: Matrix,
}

impl PageEntry {
    /// Drops all rows while keeping stream capacity — the cleared entry
    /// compares equal to a freshly quantized empty one, so recycled
    /// frames carry no trace of their previous tenant.
    fn clear(&mut self) {
        self.k.clear_rows();
        self.k_plane.clear_rows();
        self.v.clear_rows();
        self.v_rows.clear_rows();
    }
}

/// Metadata attached to a page when its content is frozen for prefix
/// sharing. Set once (`OnceLock`); a page with meta is immutable — any
/// outstanding `Weak` makes `Arc::get_mut` fail, which is exactly what
/// routes appends through the copy-on-write clone.
#[derive(Debug)]
struct FrozenMeta {
    /// Chain hash of the prompt rows up to and including this page.
    chain_hash: u128,
    /// [`checksum_entries`] of the frozen frame, for mutation audits.
    content_sum: u64,
    /// The prompt rows this page's KV state was computed from, kept for
    /// the bitwise compare that guards against hash collisions.
    src_rows: Matrix,
    /// The prefill output rows for those tokens, so an adopting request
    /// can reproduce its solo response without recomputing the prefix.
    out_rows: Matrix,
}

/// A page's storage plus its route back to the pool: dropping the last
/// handle clears the frame and returns it to the free list.
#[derive(Debug)]
struct PageBox {
    pool: Weak<KvPagePool>,
    entries: Vec<PageEntry>,
    meta: OnceLock<FrozenMeta>,
}

impl Drop for PageBox {
    fn drop(&mut self) {
        if let Some(pool) = self.pool.upgrade() {
            let mut entries = std::mem::take(&mut self.entries);
            // Clear before taking the pool lock, so the free-list mutex
            // guards only the push.
            for e in &mut entries {
                e.clear();
            }
            pool.release(entries);
        }
    }
}

/// Refcounted handle to one page. `Clone` is an `Arc` clone — sessions
/// sharing a prefix (or a cloned session) hold the same page until one of
/// them appends, at which point `PageHandle::make_mut` clones it.
#[derive(Debug, Clone)]
pub struct PageHandle(Arc<PageBox>);

impl PageHandle {
    /// Mutable access to the page, cloning first when shared — a frozen
    /// or session-shared page is never mutated in place. The clone is the
    /// cold path; steady-state decode appends hit the in-place branch.
    fn make_mut(&mut self, pool: &KvPagePool) -> &mut PageBox {
        if Arc::get_mut(&mut self.0).is_none() {
            pool.note_cow();
            self.0 = Arc::new(PageBox {
                pool: self.0.pool.clone(),
                entries: self.0.entries.clone(),
                meta: OnceLock::new(),
            });
        }
        // m2x-lint: allow(panic) the handle was created or proven unshared one line up
        Arc::get_mut(&mut self.0).expect("freshly cloned page handle is unshared")
    }

    /// `true` iff both handles point at the same page storage.
    #[cfg(test)]
    fn same_page(&self, other: &PageHandle) -> bool {
        Arc::ptr_eq(&self.0, &other.0)
    }
}

/// Counter snapshot of a pool, taken under the pool lock. The pool keeps
/// one of these as its running counters; the three gauges (`free_pages`,
/// `retained_pages`, `shared_pages`) are filled in by
/// [`KvPagePool::stats`].
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct PoolStats {
    /// Pages currently owned by live handles.
    pub pages_in_use: u64,
    /// High-water mark of `pages_in_use`.
    pub peak_pages: u64,
    /// Frames built from scratch (free list was empty).
    pub page_allocs: u64,
    /// Frames recycled off the free list.
    pub page_reuses: u64,
    /// Frames returned (dropped handles).
    pub releases: u64,
    /// Copy-on-write page clones (append hit a shared page).
    pub cow_clones: u64,
    /// Prefix-index probes that adopted a page.
    pub prefix_hits: u64,
    /// Prefix lookups that stopped at a page with no live match.
    pub prefix_misses: u64,
    /// Frames currently parked on the free list.
    pub free_pages: u64,
    /// Frozen prefix pages the pool keeps alive.
    pub retained_pages: u64,
    /// Retained pages currently shared with at least one session.
    pub shared_pages: u64,
}

struct PoolInner {
    free: Vec<Vec<PageEntry>>,
    /// Frozen prefix pages, least recently hit first: the prefix index.
    retained: VecDeque<Arc<PageBox>>,
    stats: PoolStats,
}

impl PoolInner {
    /// The retained page frozen under chain hash `h`, if any, moved to the
    /// back of the list: eviction takes the least recently hit page.
    fn find_retained(&mut self, h: u128) -> Option<&Arc<PageBox>> {
        let i = self
            .retained
            .iter()
            .position(|p| p.meta.get().is_some_and(|m| m.chain_hash == h))?;
        let page = self.retained.remove(i)?;
        self.retained.push_back(page);
        self.retained.back()
    }
}

/// The shared page allocator + prefix retention. One pool per
/// [`ModelWeights`](crate::ModelWeights); every session's
/// [`PagedKv`] allocates from it.
pub struct KvPagePool {
    geom: PoolGeometry,
    inner: Mutex<PoolInner>,
}

impl std::fmt::Debug for KvPagePool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("KvPagePool")
            .field("geom", &self.geom)
            .field("stats", &self.stats())
            .finish()
    }
}

/// The result of a successful prefix probe: the shared pages, how many
/// tokens they cover, and the prefill output rows for those tokens.
#[derive(Debug, Clone)]
pub struct PrefixMatch {
    /// Frozen pages to adopt, in sequence order.
    pub pages: Vec<PageHandle>,
    /// Tokens the pages cover (`pages.len() * page_tokens`).
    pub tokens: usize,
    /// Stitched prefill output rows (`[tokens, hidden]`) recorded when
    /// the prefix was registered — bit-identical to recomputing them.
    pub out_rows: Matrix,
}

impl KvPagePool {
    /// Builds a pool for the given page shape.
    ///
    /// # Errors
    ///
    /// Fails when `page_tokens` is not a positive multiple of the group
    /// size or a dimension is zero.
    pub fn new(geom: PoolGeometry) -> Result<Arc<Self>, Error> {
        geom.validate()?;
        Ok(Arc::new(KvPagePool {
            geom,
            inner: Mutex::new(PoolInner {
                free: Vec::new(),
                retained: VecDeque::new(),
                stats: PoolStats::default(),
            }),
        }))
    }

    /// The page shape this pool hands out.
    pub fn geometry(&self) -> &PoolGeometry {
        &self.geom
    }

    /// Tokens per page.
    pub fn page_tokens(&self) -> usize {
        self.geom.page_tokens
    }

    /// Takes one page: recycled off the free list when possible (O(1),
    /// allocation-free), built from scratch otherwise.
    // m2x-lint: hot
    pub fn acquire(self: &Arc<Self>) -> PageHandle {
        let recycled = {
            let mut g = lock_pool(&self.inner);
            let frame = g.free.pop();
            let s = &mut g.stats;
            if frame.is_some() {
                s.page_reuses += 1;
            } else {
                s.page_allocs += 1;
            }
            s.pages_in_use += 1;
            s.peak_pages = s.peak_pages.max(s.pages_in_use);
            frame
        };
        let entries = match recycled {
            Some(frame) => frame,
            None => self.fresh_frame(),
        };
        PageHandle(Arc::new(PageBox {
            pool: Arc::downgrade(self),
            entries,
            meta: OnceLock::new(),
        }))
    }

    /// Builds a brand-new empty frame (the acquire cold path).
    fn fresh_frame(&self) -> Vec<PageEntry> {
        let g = &self.geom;
        (0..g.layers * g.kv_heads)
            .map(|_| {
                let k = PackedWeightTensor::empty(g.head_dim, g.cfg);
                PageEntry {
                    k_plane: WeightPlane::decode(&k),
                    k,
                    v: PackedWeightTensor::empty(g.head_dim, g.cfg),
                    v_rows: Matrix::zeros(0, g.head_dim),
                }
            })
            .collect()
    }

    /// Returns a cleared frame to the free list (called from the last
    /// handle's drop). Frames beyond [`FREE_LIST_CAP`] are dropped, and
    /// dropped outside the lock.
    // m2x-lint: hot
    fn release(&self, mut frame: Vec<PageEntry>) {
        let overflow = {
            let mut g = lock_pool(&self.inner);
            g.stats.releases += 1;
            g.stats.pages_in_use = g.stats.pages_in_use.saturating_sub(1);
            if g.free.len() < FREE_LIST_CAP {
                g.free.push(std::mem::take(&mut frame));
                None
            } else {
                Some(std::mem::take(&mut frame))
            }
        };
        drop(overflow);
    }

    fn note_cow(&self) {
        let s = &mut lock_pool(&self.inner).stats;
        s.cow_clones += 1;
        s.pages_in_use += 1;
        s.peak_pages = s.peak_pages.max(s.pages_in_use);
    }

    /// Probes the retained pages for the longest run of frozen pages whose
    /// source rows are bit-identical to the front of `prompt`, finding
    /// each by its chain hash. Adoption is capped at `prompt.rows() - 1`
    /// tokens so at least one suffix row remains for the adopting
    /// request's own prefill step.
    pub fn lookup_prefix(&self, prompt: &Matrix) -> Option<PrefixMatch> {
        let pt = self.geom.page_tokens;
        let max_pages = prompt.rows().saturating_sub(1) / pt;
        if max_pages == 0 {
            return None;
        }
        let mut h = CHAIN_SEED;
        let mut pages: Vec<PageHandle> = Vec::new();
        let mut out: Option<Matrix> = None;
        let mut missed = false;
        for pi in 0..max_pages {
            h = hash_rows(h, prompt, pi * pt, pt);
            let found = lock_pool(&self.inner).find_retained(h).cloned();
            let Some(page) = found.filter(|p| {
                p.meta
                    .get()
                    .is_some_and(|m| rows_bit_equal(&m.src_rows, prompt, pi * pt, pt))
            }) else {
                missed = true;
                break;
            };
            // The compare above proved the page covers exactly these
            // prompt rows, so its recorded output rows are the rows a
            // solo prefill would produce.
            if let Some(meta) = page.meta.get() {
                match &mut out {
                    Some(m) => m.push_rows(&meta.out_rows),
                    None => out = Some(meta.out_rows.clone()),
                }
            }
            pages.push(PageHandle(page));
        }
        {
            let s = &mut lock_pool(&self.inner).stats;
            s.prefix_hits += pages.len() as u64;
            s.prefix_misses += u64::from(missed);
        }
        let out = out?;
        Some(PrefixMatch {
            tokens: pages.len() * pt,
            pages,
            out_rows: out,
        })
    }

    /// Freezes the full pages of a completed prefill under the chain hash
    /// of the prompt rows they cover and retains them, so a prefix
    /// outlives the request that produced it. The pool retains up to
    /// `RETAIN_CAP` frozen pages and evicts the least recently hit first.
    /// Pages already frozen (an adopted prefix, a replayed request) are
    /// left as-is, and a page already retained under a chain hash is never
    /// displaced; it counts as hit.
    pub fn register_prefix(&self, prompt: &Matrix, prefill_out: &Matrix, kv: &PagedKv) {
        let pt = self.geom.page_tokens;
        let full = (prompt.rows() / pt)
            .min(kv.pages.len())
            .min(prefill_out.rows() / pt);
        let mut h = CHAIN_SEED;
        for pi in 0..full {
            h = hash_rows(h, prompt, pi * pt, pt);
            let page = &kv.pages[pi].0;
            page.meta.get_or_init(|| FrozenMeta {
                chain_hash: h,
                content_sum: checksum_entries(&page.entries),
                src_rows: prompt.block(pi * pt, 0, pt, prompt.cols()),
                out_rows: prefill_out.block(pi * pt, 0, pt, prefill_out.cols()),
            });
            let evicted = {
                let mut g = lock_pool(&self.inner);
                if g.find_retained(h).is_some() {
                    continue;
                }
                g.retained.push_back(Arc::clone(page));
                if g.retained.len() > RETAIN_CAP {
                    g.retained.pop_front()
                } else {
                    None
                }
            };
            // An evicted page drops (and recycles) outside the pool lock.
            drop(evicted);
        }
    }

    /// Drops every retained prefix page — the serving engine calls this on
    /// shutdown so the zero-leak invariant (`pages_in_use == 0` once all
    /// sessions are gone) holds.
    pub fn clear_retained(&self) {
        let drained = std::mem::take(&mut lock_pool(&self.inner).retained);
        drop(drained);
    }

    /// Re-checksums every retained frozen page against the sum recorded
    /// at freeze time, and checks that each entry's score-GEMM plane is
    /// still the one its packed K streams decode to (attention reads the
    /// plane, not the streams). `true` means no shared page was ever
    /// mutated in place — the property tests assert this after arbitrary
    /// churn.
    pub fn verify_frozen(&self) -> bool {
        let retained: Vec<Arc<PageBox>> = {
            let g = lock_pool(&self.inner);
            g.retained.iter().cloned().collect()
        };
        retained.iter().all(|p| {
            p.meta
                .get()
                .is_some_and(|m| checksum_entries(&p.entries) == m.content_sum)
                && p.entries
                    .iter()
                    .all(|e| e.k_plane == WeightPlane::decode(&e.k))
        })
    }

    /// Counter snapshot: the running counters plus the three gauges.
    pub fn stats(&self) -> PoolStats {
        let g = lock_pool(&self.inner);
        PoolStats {
            free_pages: g.free.len() as u64,
            retained_pages: g.retained.len() as u64,
            shared_pages: g
                .retained
                .iter()
                .filter(|p| Arc::strong_count(p) >= 2)
                .count() as u64,
            ..g.stats
        }
    }
}

/// A session's view of its KV state: page handles into the shared pool
/// plus per-layer token counts. Replaces the per-session owned `KvCache`
/// vector; cloning a `PagedKv` shares its pages (copy-on-write on the
/// next append).
#[derive(Debug, Clone)]
pub struct PagedKv {
    pool: Arc<KvPagePool>,
    pages: Vec<PageHandle>,
    /// Tokens appended per layer. Tracked per layer because within one
    /// step layer 0's append runs ahead of the rest and is the one that
    /// acquires new pages.
    layer_len: Vec<usize>,
}

impl PagedKv {
    /// An empty view into `pool`.
    pub fn new(pool: Arc<KvPagePool>) -> Self {
        let layers = pool.geometry().layers;
        PagedKv {
            pool,
            pages: Vec::new(),
            layer_len: vec![0; layers],
        }
    }

    /// The pool this view allocates from.
    pub fn pool(&self) -> &Arc<KvPagePool> {
        &self.pool
    }

    /// Cached sequence length in tokens (layer 0 leads within a step;
    /// all layers agree between steps).
    pub fn tokens(&self) -> usize {
        self.layer_len.first().copied().unwrap_or(0)
    }

    /// Tokens appended for layer `li`.
    pub fn layer_len(&self, li: usize) -> usize {
        self.layer_len[li]
    }

    /// Pages currently held.
    pub fn page_count(&self) -> usize {
        self.pages.len()
    }

    /// Rows of layer `li` stored in page `pi`.
    pub fn page_rows(&self, li: usize, pi: usize) -> usize {
        let pt = self.pool.geom.page_tokens;
        self.layer_len[li].saturating_sub(pi * pt).min(pt)
    }

    /// The decoded K plane of `(page, layer, kv_head)` — the score GEMM's
    /// weight operand.
    pub fn page_k(&self, pi: usize, li: usize, h: usize) -> &WeightPlane {
        &self.pages[pi].0.entries[li * self.pool.geom.kv_heads + h].k_plane
    }

    /// The dequantized V rows of `(page, layer, kv_head)`.
    pub fn page_v_rows(&self, pi: usize, li: usize, h: usize) -> &Matrix {
        &self.pages[pi].0.entries[li * self.pool.geom.kv_heads + h].v_rows
    }

    /// Quantizes and appends new K/V projection rows (`[tokens, kv_dim]`)
    /// for layer `li`, splitting them across page boundaries. Within a
    /// page the per-head work is exactly the old monolithic append — K
    /// rows quantize and decode-on-append into the K plane, V rows
    /// quantize once and cache their dequantized values — so paged growth is
    /// bit-identical to the unpaged cache. Appending through a shared
    /// handle clones the page first (copy-on-write).
    ///
    /// # Errors
    ///
    /// Fails on a width mismatch against the pool geometry.
    // m2x-lint: hot
    pub fn append_layer(&mut self, li: usize, k_new: &Matrix, v_new: &Matrix) -> Result<(), Error> {
        let geom = *self.pool.geometry();
        let kv_dim = geom.kv_heads * geom.head_dim;
        if k_new.cols() != kv_dim || v_new.cols() != kv_dim || k_new.rows() != v_new.rows() {
            return Err(Error::WidthMismatch {
                // m2x-lint: allow(alloc) cold error path
                tensor: "paged kv append".to_string(),
                expected: kv_dim,
                got: k_new.cols().max(v_new.cols()),
            });
        }
        let pt = geom.page_tokens;
        let tokens = k_new.rows();
        let mut done = 0;
        while done < tokens {
            let pos = self.layer_len[li];
            let pidx = pos / pt;
            let take = (pt - pos % pt).min(tokens - done);
            if pidx == self.pages.len() {
                let pool = Arc::clone(&self.pool);
                self.pages.push(pool.acquire());
            }
            let page = self.pages[pidx].make_mut(&self.pool);
            for h in 0..geom.kv_heads {
                let e = &mut page.entries[li * geom.kv_heads + h];
                let ks = k_new.block(done, h * geom.head_dim, take, geom.head_dim);
                let kq = PackedWeightTensor::quantize_parallel(&ks, geom.cfg);
                e.k_plane.append(&kq);
                e.k.append_packed(kq)?;
                let vs = v_new.block(done, h * geom.head_dim, take, geom.head_dim);
                let vq = PackedWeightTensor::quantize_parallel(&vs, geom.cfg);
                e.v_rows.push_rows(&vq.dequantize());
                e.v.append_packed(vq)?;
            }
            self.layer_len[li] = pos + take;
            done += take;
        }
        Ok(())
    }

    /// Adopts frozen prefix pages into an empty view: the session starts
    /// at `tokens` as if it had prefilled them itself. Must only be
    /// called on a fresh (empty) view.
    pub fn adopt_prefix(&mut self, pages: Vec<PageHandle>, tokens: usize) {
        debug_assert!(self.pages.is_empty() && self.tokens() == 0);
        debug_assert_eq!(tokens, pages.len() * self.pool.geom.page_tokens);
        self.pages = pages;
        for l in &mut self.layer_len {
            *l = tokens;
        }
    }

    /// Releases every page back to the pool and resets the view.
    pub fn clear(&mut self) {
        self.pages.clear();
        for l in &mut self.layer_len {
            *l = 0;
        }
    }

    /// Packed footprint of the held pages in bytes — the canonical
    /// 4.5-bit three-stream representation. This is what the serving
    /// admission budget (`kv_budget_bytes`) gates on; pages shared with
    /// other sessions are counted once per holder.
    pub fn packed_bytes(&self) -> usize {
        self.pages
            .iter()
            .flat_map(|p| p.0.entries.iter())
            .map(|e| e.k.packed_bytes() + e.v.packed_bytes())
            .sum()
    }

    /// Decoded working state on top of the packed streams: the K
    /// score-GEMM kernel operands (8.25-bit [`WeightPlane`]s,
    /// [`WeightPlane::decoded_bytes`]) plus the dequantized f32 V row
    /// cache. Unmetered by the admission budget, reported separately so
    /// accounting is honest.
    pub fn decoded_bytes(&self) -> usize {
        self.pages
            .iter()
            .flat_map(|p| p.0.entries.iter())
            .map(|e| {
                e.k_plane.decoded_bytes()
                    + e.v_rows.rows() * e.v_rows.cols() * std::mem::size_of::<f32>()
            })
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn geom() -> PoolGeometry {
        PoolGeometry {
            layers: 2,
            kv_heads: 2,
            head_dim: 32,
            page_tokens: 32,
            cfg: M2xfpConfig::default(),
        }
    }

    fn rows(tokens: usize, cols: usize, seed: f32) -> Matrix {
        Matrix::from_fn(tokens, cols, |r, c| {
            (((r * 31 + c * 7) as f32 * 0.13 + seed).sin()) * 0.5
        })
    }

    fn append_all(kv: &mut PagedKv, k: &Matrix, v: &Matrix) {
        for li in 0..kv.pool().geometry().layers {
            kv.append_layer(li, k, v).unwrap();
        }
    }

    fn page_checksums(kv: &PagedKv) -> Vec<u64> {
        kv.pages
            .iter()
            .map(|p| checksum_entries(&p.0.entries))
            .collect()
    }

    #[test]
    fn geometry_rejects_group_splitting_pages() {
        let mut g = geom();
        g.page_tokens = 48; // not a multiple of group_size 32
        assert!(KvPagePool::new(g).is_err());
        g.page_tokens = 0;
        assert!(KvPagePool::new(g).is_err());
    }

    #[test]
    fn append_spans_pages_and_tracks_lengths() {
        let pool = KvPagePool::new(geom()).unwrap();
        let mut kv = PagedKv::new(Arc::clone(&pool));
        let (k, v) = (rows(40, 64, 0.0), rows(40, 64, 1.0));
        append_all(&mut kv, &k, &v);
        assert_eq!(kv.page_count(), 2);
        assert_eq!(kv.tokens(), 40);
        assert_eq!(kv.page_rows(0, 0), 32);
        assert_eq!(kv.page_rows(0, 1), 8);
        assert_eq!(kv.page_rows(1, 1), 8);
        assert!(kv.packed_bytes() > 0);
        assert!(kv.decoded_bytes() > 0);
        let s = pool.stats();
        assert_eq!(s.pages_in_use, 2);
        assert_eq!(s.page_allocs, 2);
    }

    #[test]
    fn recycled_page_leaves_no_trace() {
        // Fill, release, re-fill with different data, then compare
        // against a never-recycled pool fed the same second dataset.
        let pool = KvPagePool::new(geom()).unwrap();
        let mut kv = PagedKv::new(Arc::clone(&pool));
        append_all(&mut kv, &rows(40, 64, 0.0), &rows(40, 64, 1.0));
        kv.clear();
        let s = pool.stats();
        assert_eq!(s.pages_in_use, 0);
        assert_eq!(s.free_pages, 2);

        let mut kv2 = PagedKv::new(Arc::clone(&pool));
        append_all(&mut kv2, &rows(40, 64, 2.0), &rows(40, 64, 3.0));
        assert!(pool.stats().page_reuses >= 2);

        let fresh_pool = KvPagePool::new(geom()).unwrap();
        let mut fresh = PagedKv::new(Arc::clone(&fresh_pool));
        append_all(&mut fresh, &rows(40, 64, 2.0), &rows(40, 64, 3.0));
        assert_eq!(page_checksums(&kv2), page_checksums(&fresh));
    }

    #[test]
    fn cloned_view_copies_on_write() {
        // 20 tokens leave page 0 partially filled, so the fork's append
        // writes into a shared page and must trigger the CoW clone.
        let pool = KvPagePool::new(geom()).unwrap();
        let mut kv = PagedKv::new(Arc::clone(&pool));
        append_all(&mut kv, &rows(20, 64, 0.0), &rows(20, 64, 1.0));
        let before = page_checksums(&kv);

        let mut forked = kv.clone();
        append_all(&mut forked, &rows(4, 64, 2.0), &rows(4, 64, 3.0));
        assert_eq!(kv.tokens(), 20);
        assert_eq!(forked.tokens(), 24);
        assert_eq!(
            page_checksums(&kv),
            before,
            "original view must be untouched"
        );
        assert!(!kv.pages[0].same_page(&forked.pages[0]));
        assert_eq!(pool.stats().cow_clones, 1, "one shared page, one clone");
    }

    #[test]
    fn full_shared_page_is_not_forked_by_later_appends() {
        // An exactly-full shared page never receives another append —
        // growth goes to a fresh page, and the prefix stays shared.
        let pool = KvPagePool::new(geom()).unwrap();
        let mut kv = PagedKv::new(Arc::clone(&pool));
        append_all(&mut kv, &rows(32, 64, 0.0), &rows(32, 64, 1.0));
        let mut forked = kv.clone();
        append_all(&mut forked, &rows(4, 64, 2.0), &rows(4, 64, 3.0));
        assert!(kv.pages[0].same_page(&forked.pages[0]));
        assert_eq!(forked.page_count(), 2);
        assert_eq!(pool.stats().cow_clones, 0);
    }

    #[test]
    fn register_then_lookup_adopts_frozen_pages() {
        let pool = KvPagePool::new(geom()).unwrap();
        let mut kv = PagedKv::new(Arc::clone(&pool));
        let prompt = rows(40, 16, 0.5);
        let out = rows(40, 16, 4.0);
        append_all(&mut kv, &rows(40, 64, 0.0), &rows(40, 64, 1.0));
        pool.register_prefix(&prompt, &out, &kv);
        assert!(pool.verify_frozen());

        let m = pool.lookup_prefix(&prompt).expect("prefix must hit");
        assert_eq!(m.tokens, 32);
        assert_eq!(m.pages.len(), 1);
        assert!(m.pages[0].same_page(&kv.pages[0]));
        assert!(rows_bit_equal(&m.out_rows, &out, 0, 32));

        // A different prompt must miss (and count as a miss).
        assert!(pool.lookup_prefix(&rows(40, 16, 9.0)).is_none());
        let s = pool.stats();
        assert_eq!(s.prefix_hits, 1);
        assert_eq!(s.prefix_misses, 1);
        assert_eq!(s.retained_pages, 1);
        assert!(s.shared_pages >= 1);
    }

    #[test]
    fn adoption_caps_below_full_prompt() {
        // 64 rows = exactly 2 pages, but at least one suffix row must
        // remain, so only 1 page (32 tokens) is adoptable.
        let pool = KvPagePool::new(geom()).unwrap();
        let mut kv = PagedKv::new(Arc::clone(&pool));
        let prompt = rows(64, 16, 0.5);
        append_all(&mut kv, &rows(64, 64, 0.0), &rows(64, 64, 1.0));
        pool.register_prefix(&prompt, &rows(64, 16, 4.0), &kv);
        let m = pool.lookup_prefix(&prompt).expect("prefix must hit");
        assert_eq!(m.tokens, 32);
    }

    #[test]
    fn adopted_prefix_stays_shared_and_unmutated() {
        let pool = KvPagePool::new(geom()).unwrap();
        let mut kv = PagedKv::new(Arc::clone(&pool));
        let prompt = rows(40, 16, 0.5);
        append_all(&mut kv, &rows(40, 64, 0.0), &rows(40, 64, 1.0));
        pool.register_prefix(&prompt, &rows(40, 16, 4.0), &kv);

        let m = pool.lookup_prefix(&prompt).expect("prefix must hit");
        let mut adopter = PagedKv::new(Arc::clone(&pool));
        adopter.adopt_prefix(m.pages, m.tokens);
        assert_eq!(adopter.tokens(), 32);
        append_all(&mut adopter, &rows(8, 64, 7.0), &rows(8, 64, 8.0));
        assert_eq!(adopter.tokens(), 40);
        // Suffix growth lands in a fresh page; the adopted full page
        // stays shared and untouched.
        assert!(adopter.pages[0].same_page(&kv.pages[0]));
        assert_eq!(adopter.page_count(), 2);
        assert!(pool.verify_frozen(), "frozen page mutated in place");
    }

    #[test]
    fn frozen_page_write_copies_instead_of_mutating() {
        // Force the degenerate case the CoW rule exists for: a write
        // that does land inside a frozen (pool-retained) page. A
        // cloned view of a partially-filled page whose full sibling is
        // frozen exercises get_mut failing on the retained strong ref.
        let pool = KvPagePool::new(geom()).unwrap();
        let mut kv = PagedKv::new(Arc::clone(&pool));
        let prompt = rows(40, 16, 0.5);
        append_all(&mut kv, &rows(40, 64, 0.0), &rows(40, 64, 1.0));
        pool.register_prefix(&prompt, &rows(40, 16, 4.0), &kv);
        let frozen_sum = checksum_entries(&kv.pages[0].0.entries);

        // Drop the session; the frozen page survives via the retained
        // list. Adopt it, then append through a handle while the pool
        // still retains it — writes must clone, never mutate.
        drop(kv);
        let m = pool.lookup_prefix(&prompt).expect("prefix must hit");
        let mut adopter = PagedKv::new(Arc::clone(&pool));
        adopter.adopt_prefix(m.pages, m.tokens);
        // Reach into the frozen page directly: make_mut must fork.
        let forked = adopter.pages[0].make_mut(&pool);
        assert_eq!(checksum_entries(&forked.entries), frozen_sum);
        assert!(pool.stats().cow_clones >= 1);
        assert!(pool.verify_frozen(), "frozen page mutated in place");
    }

    #[test]
    fn verify_frozen_audits_the_score_plane() {
        // Attention's score GEMM reads `k_plane`, which the content
        // checksum does not cover: a frozen page whose plane no longer
        // matches its K streams must fail the audit.
        let pool = KvPagePool::new(geom()).unwrap();
        let mut kv = PagedKv::new(Arc::clone(&pool));
        append_all(&mut kv, &rows(40, 64, 0.0), &rows(40, 64, 1.0));
        pool.register_prefix(&rows(40, 16, 0.5), &rows(40, 16, 4.0), &kv);
        drop(kv);
        assert!(pool.verify_frozen());
        {
            let mut g = lock_pool(&pool.inner);
            let page = Arc::get_mut(&mut g.retained[0]).expect("the pool is the only holder");
            page.entries[0].k_plane.clear_rows();
        }
        assert!(!pool.verify_frozen(), "a changed K plane passed the audit");
    }

    #[test]
    fn zero_leak_after_clear_retained() {
        let pool = KvPagePool::new(geom()).unwrap();
        let mut kv = PagedKv::new(Arc::clone(&pool));
        let prompt = rows(40, 16, 0.5);
        append_all(&mut kv, &rows(40, 64, 0.0), &rows(40, 64, 1.0));
        pool.register_prefix(&prompt, &rows(40, 16, 4.0), &kv);
        drop(kv);
        assert_eq!(
            pool.stats().pages_in_use,
            1,
            "retained prefix page survives"
        );
        pool.clear_retained();
        let s = pool.stats();
        assert_eq!(s.pages_in_use, 0, "every page back on the free list");
        assert!(pool.lookup_prefix(&prompt).is_none(), "index cleared");
    }

    #[test]
    fn evicted_prefix_pages_leave_the_index() {
        // More distinct one-page prefixes than the retention cap: the
        // retained list, which is the index, stays bounded by the cap
        // instead of growing with every prefix seen.
        let pool = KvPagePool::new(geom()).unwrap();
        for i in 0..RETAIN_CAP + 8 {
            let seed = i as f32;
            let mut kv = PagedKv::new(Arc::clone(&pool));
            append_all(&mut kv, &rows(32, 64, seed), &rows(32, 64, seed + 0.5));
            pool.register_prefix(&rows(32, 16, seed), &rows(32, 16, seed + 0.25), &kv);
        }
        assert_eq!(pool.stats().retained_pages, RETAIN_CAP as u64);
        // The newest prefix is still adoptable; the oldest was evicted.
        let newest = (RETAIN_CAP + 7) as f32;
        assert!(pool.lookup_prefix(&rows(33, 16, newest)).is_some());
        assert!(pool.lookup_prefix(&rows(33, 16, 0.0)).is_none());
        pool.clear_retained();
        assert_eq!(pool.stats().pages_in_use, 0);
    }

    #[test]
    fn prefix_in_use_outlives_one_off_pages() {
        // A prefix that every request adopts stays retained under a stream
        // of unique full pages: each hit moves it to the back of the list,
        // so eviction takes the one-off pages instead.
        let pool = KvPagePool::new(geom()).unwrap();
        let mut shared = PagedKv::new(Arc::clone(&pool));
        append_all(&mut shared, &rows(32, 64, -1.0), &rows(32, 64, -0.5));
        let prompt = rows(33, 16, -1.0);
        pool.register_prefix(&prompt, &rows(32, 16, -0.75), &shared);
        drop(shared);
        for i in 0..2 * RETAIN_CAP {
            let seed = i as f32;
            let mut kv = PagedKv::new(Arc::clone(&pool));
            append_all(&mut kv, &rows(32, 64, seed), &rows(32, 64, seed + 0.5));
            pool.register_prefix(&rows(32, 16, seed), &rows(32, 16, seed + 0.25), &kv);
            assert!(pool.lookup_prefix(&prompt).is_some(), "evicted after {i}");
        }
        assert_eq!(pool.stats().retained_pages, RETAIN_CAP as u64);
        pool.clear_retained();
        assert_eq!(pool.stats().pages_in_use, 0);
    }

    #[test]
    fn evicted_page_is_not_adoptable_while_a_session_holds_it() {
        // A page pushed out of the retention list stays alive in the
        // session that holds it, but no lookup may hand it out again.
        let pool = KvPagePool::new(geom()).unwrap();
        let mut held = PagedKv::new(Arc::clone(&pool));
        append_all(&mut held, &rows(32, 64, 0.0), &rows(32, 64, 0.5));
        let prompt = rows(33, 16, 0.0);
        pool.register_prefix(&prompt, &rows(32, 16, 0.25), &held);
        assert!(pool.lookup_prefix(&prompt).is_some());
        for i in 1..=RETAIN_CAP {
            let seed = i as f32;
            let mut kv = PagedKv::new(Arc::clone(&pool));
            append_all(&mut kv, &rows(32, 64, seed), &rows(32, 64, seed + 0.5));
            pool.register_prefix(&rows(32, 16, seed), &rows(32, 16, seed + 0.25), &kv);
        }
        let s = pool.stats();
        assert_eq!(s.retained_pages, RETAIN_CAP as u64);
        assert_eq!(
            s.pages_in_use,
            RETAIN_CAP as u64 + 1,
            "the held page is alive"
        );
        assert!(
            pool.lookup_prefix(&prompt).is_none(),
            "evicted page adopted"
        );
        assert_eq!(pool.stats().prefix_misses, 1);
        drop(held);
        pool.clear_retained();
        assert_eq!(pool.stats().pages_in_use, 0);
    }

    #[test]
    fn paged_append_matches_monolithic_quantization() {
        // One long append vs token-by-token appends across a page
        // boundary: identical packed bits (rows quantize independently).
        let pool = KvPagePool::new(geom()).unwrap();
        let (k, v) = (rows(40, 64, 0.0), rows(40, 64, 1.0));
        let mut whole = PagedKv::new(Arc::clone(&pool));
        append_all(&mut whole, &k, &v);

        let pool2 = KvPagePool::new(geom()).unwrap();
        let mut stepped = PagedKv::new(Arc::clone(&pool2));
        for t in 0..40 {
            let kt = k.block(t, 0, 1, 64);
            let vt = v.block(t, 0, 1, 64);
            append_all(&mut stepped, &kt, &vt);
        }
        assert_eq!(page_checksums(&whole), page_checksums(&stepped));
    }
}
