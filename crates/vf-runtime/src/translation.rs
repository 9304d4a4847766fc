//! The distributed translation table for `INDIRECT` distributions.
//!
//! The paper builds on the PARTI runtime (Saltz et al.), whose central data
//! structure for irregular distributions is the *distributed translation
//! table*: the global-index → (owner, local offset) mapping is too large to
//! replicate on every processor, so it is itself block-distributed — pages
//! of the owner directory live on well-known home processors, and a
//! processor resolving an index it has no page for fetches the page from
//! its home and caches it.  Regular distributions never need this (their
//! ownership is closed-form arithmetic); `INDIRECT(map)` arrays resolve all
//! non-local addressing through it.
//!
//! [`DistTranslationTable`] realises that design over the simulated
//! machine:
//!
//! * the directory is split into fixed-size **pages** of
//!   `(owner, local offset)` entries;
//! * pages are **block-distributed** over the processors of the target view
//!   (page `p`'s home is the `BLOCK` owner of `p` among the view's
//!   processors);
//! * every processor has a **page cache**: the first lookup of a page not
//!   homed locally records a page fetch (home → requester, one message of
//!   page-size × entry bytes), later lookups hit the cache for free.
//!
//! The communication planners ([`crate::plan`]) consult a table whenever a
//! distribution involves an `INDIRECT` dimension.  The table is an entry
//! of the [`crate::PlanCache`] the planner runs for — the machine's plan
//! store — keyed by the distribution's fingerprint and counted in the same
//! byte budget and LRU as the plans: a repartitioned array gets a fresh
//! table under its new fingerprint, and the stale one ages out like a
//! stale plan.  [`table_for`] is the uncached builder.
//!
//! The planners do **not** use the instance page cache: each planning
//! session tracks its requesters' fetched pages locally (lock-free on the
//! per-element path) and attaches the session's directory messages to the
//! [`crate::plan::CommPlan`] it builds; the messages are charged once, at
//! the plan's first execution — a cache-hit plan generates no new
//! directory traffic at all, which is exactly the cold-vs-warm distinction
//! of PARTI schedule reuse.  A shared table shares only its immutable
//! pages, so two sessions planning against one table each model a cold
//! directory.  Lookups agree exactly with the element-wise
//! [`vf_dist::Distribution::owner`] / `loc_map` API (asserted by the
//! property suite).

use std::sync::{Mutex, PoisonError};
use vf_dist::{DimDist, Distribution, ProcId};

/// Default number of directory entries per page.
pub const DEFAULT_PAGE_SIZE: usize = 1024;

/// Wire bytes of one directory entry (owner + local offset, u32 each).
pub const ENTRY_BYTES: usize = 8;

/// Lookup counters of a [`DistTranslationTable`]'s own page cache, or of
/// the planning sessions a [`crate::PlanCache`] ran.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TranslationStats {
    /// Lookups answered by a page homed on the requesting processor.
    pub home_hits: u64,
    /// Lookups answered by a previously fetched cached page.
    pub cache_hits: u64,
    /// Pages fetched from a remote home (one message each).
    pub page_fetches: u64,
    /// Bytes those page fetches moved.
    pub fetched_bytes: usize,
}

impl std::ops::AddAssign for TranslationStats {
    fn add_assign(&mut self, delta: Self) {
        self.home_hits += delta.home_hits;
        self.cache_hits += delta.cache_hits;
        self.page_fetches += delta.page_fetches;
        self.fetched_bytes += delta.fetched_bytes;
    }
}

impl std::ops::Sub for TranslationStats {
    type Output = Self;

    fn sub(self, before: Self) -> Self {
        Self {
            home_hits: self.home_hits - before.home_hits,
            cache_hits: self.cache_hits - before.cache_hits,
            page_fetches: self.page_fetches - before.page_fetches,
            fetched_bytes: self.fetched_bytes - before.fetched_bytes,
        }
    }
}

#[derive(Debug, Default)]
struct Inner {
    /// `cached[proc][page]`: whether `proc` holds a copy of `page`.
    cached: Vec<Vec<bool>>,
    stats: TranslationStats,
}

/// A paged, block-distributed owner directory for one distribution — the
/// PARTI distributed translation table (see the module docs).
#[derive(Debug)]
pub struct DistTranslationTable {
    /// Fingerprint of the distribution the table resolves.
    fingerprint: u64,
    page_size: usize,
    /// Directory entries, paged: `pages[p][i]` is `(owner, local offset)`
    /// of global offset `p * page_size + i`.
    pages: Vec<Vec<(u32, u32)>>,
    /// Home processor of each page (`BLOCK` over the view's processors).
    homes: Vec<ProcId>,
    inner: Mutex<Inner>,
}

impl DistTranslationTable {
    /// Builds the table for `dist` with an explicit page size (clamped to
    /// at least 1).
    pub fn with_page_size(dist: &Distribution, page_size: usize) -> Self {
        let page_size = page_size.max(1);
        let size = dist.domain().size();
        let locator = dist.locator();
        let num_pages = size.div_ceil(page_size).max(1);
        let mut pages: Vec<Vec<(u32, u32)>> = Vec::with_capacity(num_pages);
        for page in 0..num_pages {
            let start = page * page_size;
            let end = (start + page_size).min(size);
            pages.push(
                (start..end)
                    .map(|lin| {
                        let (o, l) = locator.locate_lin(lin);
                        (o.0 as u32, l as u32)
                    })
                    .collect(),
            );
        }
        // The directory itself is block-distributed over the view.
        let view = dist.proc_ids();
        let nview = view.len().max(1);
        let homes = (0..num_pages)
            .map(|page| view[DimDist::Block.owner(page, num_pages, nview)])
            .collect();
        let total_procs = dist.procs().array().num_procs();
        Self {
            fingerprint: dist.fingerprint(),
            page_size,
            pages,
            homes,
            inner: Mutex::new(Inner {
                cached: vec![Vec::new(); total_procs],
                ..Inner::default()
            }),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Inner> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Fingerprint of the distribution this table resolves.
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    /// Number of directory pages.
    pub fn num_pages(&self) -> usize {
        self.pages.len()
    }

    /// Elements covered by the directory.
    pub fn len(&self) -> usize {
        (self.pages.len() - 1) * self.page_size + self.pages.last().map(|p| p.len()).unwrap_or(0)
    }

    /// Whether the directory covers no elements.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Home processor of directory page `page`.
    pub(crate) fn home_of_page(&self, page: usize) -> ProcId {
        self.homes[page]
    }

    /// Resolves global offset `lin` without touching any cache state — the
    /// "naive owner-map scan" baseline the cached path must agree with.
    pub fn lookup(&self, lin: usize) -> (ProcId, usize) {
        let (o, l) = self.pages[lin / self.page_size][lin % self.page_size];
        (ProcId(o as usize), l as usize)
    }

    /// The directory page covering global offset `lin`.
    pub(crate) fn page_of(&self, lin: usize) -> usize {
        lin / self.page_size
    }

    /// Wire bytes of fetching page `page` (short last page included).
    pub(crate) fn page_bytes(&self, page: usize) -> usize {
        self.pages[page].len() * ENTRY_BYTES
    }

    /// Resolves global offset `lin` on behalf of `requester` through the
    /// cached page path: a page homed on the requester is free, a cached
    /// page hits, and a missing page records one (home → requester) page
    /// fetch before resolving.  The result is always identical to
    /// [`DistTranslationTable::lookup`].
    pub fn lookup_from(&self, requester: ProcId, lin: usize) -> (ProcId, usize) {
        let page = lin / self.page_size;
        {
            let mut inner = self.lock();
            if self.homes[page] == requester {
                inner.stats.home_hits += 1;
            } else {
                let cached = inner
                    .cached
                    .get_mut(requester.0)
                    .expect("requester within the declaring processor array");
                if cached.len() < self.pages.len() {
                    cached.resize(self.pages.len(), false);
                }
                if cached[page] {
                    inner.stats.cache_hits += 1;
                } else {
                    cached[page] = true;
                    let bytes = self.pages[page].len() * ENTRY_BYTES;
                    inner.stats.page_fetches += 1;
                    inner.stats.fetched_bytes += bytes;
                }
            }
        }
        let (o, l) = self.pages[page][lin % self.page_size];
        (ProcId(o as usize), l as usize)
    }

    /// The lookup counters of [`DistTranslationTable::lookup_from`]
    /// (planning sessions count into their plan cache's stats instead).
    pub fn stats(&self) -> TranslationStats {
        self.lock().stats
    }

    /// Estimated resident bytes of the directory (pages + homes).
    pub fn estimated_bytes(&self) -> usize {
        use std::mem::size_of;
        self.pages
            .iter()
            .map(|p| size_of::<Vec<(u32, u32)>>() + p.len() * size_of::<(u32, u32)>())
            .sum::<usize>()
            + self.homes.len() * size_of::<ProcId>()
            + size_of::<Self>()
    }
}

/// Builds the translation table of `dist` with [`DEFAULT_PAGE_SIZE`],
/// uncached, inside a `Plan` span.
/// The planners take their tables from the [`crate::PlanCache`] they run
/// for, where a table is an entry keyed by the distribution's fingerprint
/// under the cache's byte budget (see the module docs).
pub fn table_for(dist: &Distribution) -> DistTranslationTable {
    let span = vf_machine::trace::OpenSpan::begin_with(vf_machine::trace::Phase::Plan, || {
        "translation-table build".into()
    });
    let table = DistTranslationTable::with_page_size(dist, DEFAULT_PAGE_SIZE);
    span.end();
    table
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use vf_dist::{DistType, IndirectMap, ProcessorView};
    use vf_index::IndexDomain;

    fn indirect_dist(n: usize, p: usize, seed: usize) -> Distribution {
        let map = Arc::new(IndirectMap::from_fn(n, |i| (i * 7 + seed) % p).unwrap());
        Distribution::new(
            DistType::indirect1d(map),
            IndexDomain::d1(n),
            ProcessorView::linear(p),
        )
        .unwrap()
    }

    #[test]
    fn lookups_match_the_distribution_elementwise() {
        let dist = indirect_dist(100, 4, 3);
        let table = DistTranslationTable::with_page_size(&dist, 16);
        assert_eq!(table.len(), 100);
        assert!(!table.is_empty());
        assert_eq!(table.num_pages(), 7);
        for (lin, point) in dist.domain().clone().iter().enumerate() {
            let owner = dist.owner(&point).unwrap();
            let local = dist.loc_map(owner, &point).unwrap();
            assert_eq!(table.lookup(lin), (owner, local), "direct at {lin}");
            assert_eq!(
                table.lookup_from(ProcId(lin % 4), lin),
                (owner, local),
                "cached path at {lin}"
            );
        }
    }

    #[test]
    fn directory_pages_are_block_distributed() {
        let dist = indirect_dist(64, 4, 0);
        let table = DistTranslationTable::with_page_size(&dist, 8);
        assert_eq!(table.num_pages(), 8);
        // 8 pages over 4 processors: blocks of 2.
        for page in 0..8 {
            assert_eq!(table.home_of_page(page), ProcId(page / 2));
        }
    }

    #[test]
    fn page_cache_fetches_each_remote_page_once() {
        let dist = indirect_dist(64, 4, 1);
        let table = DistTranslationTable::with_page_size(&dist, 8);
        // P0 resolves every element: its own 2 pages are home hits, the
        // other 6 pages are fetched exactly once each.
        for lin in 0..64 {
            table.lookup_from(ProcId(0), lin);
        }
        let stats = table.stats();
        assert_eq!(stats.home_hits, 16);
        assert_eq!(stats.page_fetches, 6);
        assert_eq!(stats.cache_hits, 64 - 16 - 6);
        assert_eq!(stats.fetched_bytes, 6 * 8 * ENTRY_BYTES);
        // A second full sweep is all cache hits — no new fetches.
        for lin in 0..64 {
            table.lookup_from(ProcId(0), lin);
        }
        let again = table.stats();
        assert_eq!(again.page_fetches, 6);
        assert_eq!(again.cache_hits, stats.cache_hits + 48);
    }

    #[test]
    fn regular_distributions_can_be_tabled_too() {
        // The table is built from the locator, so it works for any
        // distribution — regular ones just never route through it.
        let dist = Distribution::new(
            DistType::cyclic1d(3),
            IndexDomain::d1(40),
            ProcessorView::linear(4),
        )
        .unwrap();
        let table = table_for(&dist);
        for (lin, point) in dist.domain().clone().iter().enumerate() {
            let owner = dist.owner(&point).unwrap();
            assert_eq!(table.lookup(lin).0, owner);
        }
    }
}
